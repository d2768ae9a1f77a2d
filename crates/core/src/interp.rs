//! The evaluator: executes the typed IR against the memory object model.
//!
//! This is the Rust counterpart of Cerberus' Core driver specialised to our
//! mini-Core (§4 of the paper). All memory behaviour — capability checks,
//! provenance, ghost state, undefined behaviours — lives in `cheri-mem`;
//! the evaluator contributes expression evaluation order, integer semantics
//! (overflow UB, conversions), capability derivation at arithmetic
//! (§3.3/§3.7), calls, and the builtins/intrinsics.

use std::collections::{BTreeMap, HashMap};

use cheri_cap::{Capability, GhostState, Perms};
use cheri_mem::{AllocClass, CheriMemory, IntVal, MemError, MemEvent, Provenance, PtrVal, Ub};

use crate::ast::{BinOp, UnOp};
use crate::lex::Pos;
use crate::printf::{self, Spec};
use crate::profile::Profile;
use crate::report::{Outcome, RunResult, STEP_LIMIT};
use crate::tast::*;
use crate::types::{FloatTy, IntTy, Ty, TypeTable};

/// Runtime value. Values are plain data: a pointer carries no C type, and
/// the integer and float widths are scalars, so creating or copying a
/// value never allocates. The operations that need a type (loads, stores,
/// casts, pointer arithmetic) take it as an operand (DESIGN.md §10.8).
#[derive(Clone, Debug)]
pub enum Value<C> {
    /// No value.
    Void,
    /// Integer (possibly capability-carrying).
    Int {
        /// Its C type.
        ity: IntTy,
        /// The value.
        v: IntVal<C>,
    },
    /// Floating-point value (kept at f64 precision; f32 results are
    /// rounded through f32 after every operation).
    Float {
        /// Its C type.
        fty: FloatTy,
        /// The value.
        v: f64,
    },
    /// Pointer: its (provenance, capability) pair (§4.3).
    Ptr(PtrVal<C>),
}

impl<C: Capability> Value<C> {
    pub(crate) fn truthy(&self) -> bool {
        match self {
            Value::Void => false,
            Value::Int { v, .. } => v.value() != 0,
            Value::Float { v, .. } => *v != 0.0,
            Value::Ptr(v) => v.addr() != 0,
        }
    }

    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float { v, .. } => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn as_int(&self) -> Option<&IntVal<C>> {
        match self {
            Value::Int { v, .. } => Some(v),
            _ => None,
        }
    }

    pub(crate) fn as_ptr(&self) -> Option<&PtrVal<C>> {
        match self {
            Value::Ptr(v) => Some(v),
            _ => None,
        }
    }

    /// The capability carried by this value, if any.
    fn cap(&self) -> Option<&C> {
        match self {
            Value::Ptr(v) => Some(&v.cap),
            Value::Int { v, .. } => v.as_cap(),
            Value::Float { .. } | Value::Void => None,
        }
    }
}

/// Control-flow signal from statement execution.
enum Flow<C> {
    Normal,
    Break,
    Continue,
    Return(Value<C>),
}

/// Why a run stopped before `main` returned. Finer than [`Outcome`],
/// which folds constraint failures, limits and unsupported constructs
/// into one [`Outcome::Error`].
#[derive(Debug)]
pub enum Stop {
    /// The memory model stopped the run: UB, a hardware trap, or a
    /// constraint failure ([`MemError::Fail`]).
    Mem(MemError),
    /// An `assert` failed.
    Assert(String),
    /// `abort()` was called.
    Abort,
    /// `exit()` was called with this status.
    Exit(i64),
    /// A step, call-depth or string-length limit, or an [`Observer`]'s,
    /// was reached.
    Limit(String),
    /// The program uses a construct the engine does not support.
    Unsupported(String),
}

impl From<MemError> for Stop {
    fn from(e: MemError) -> Self {
        Stop::Mem(e)
    }
}

pub(crate) type EResult<T> = Result<T, Stop>;

/// Exit-status conversion for the value `main` returns, shared by both
/// engines so they agree by construction (the engine-differential contract
/// compares outcome labels): integer returns are delivered as the value's
/// low 64 bits — an `unsigned long` above 2⁶³ wraps negative, exactly like
/// a process exit status through the C ABI — and non-integer returns
/// (void/fallthrough) exit 0.
pub(crate) fn exit_code<C: Capability>(v: &Value<C>) -> i64 {
    match v {
        Value::Int { v, .. } => v.value() as i64,
        _ => 0,
    }
}

/// Which execution engine drives a run. Both engines share the memory
/// model, value semantics and builtins; they differ only in how control
/// flow is dispatched (recursive tree walk vs flat bytecode loop), so
/// outcomes, statistics and event traces are identical (pinned by the
/// `engine_differential` property test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The recursive AST walker: the differential oracle for the bytecode
    /// engine (see DESIGN.md §10), and the engine cheri-lint's definite
    /// pass runs on, under an [`Observer`] (DESIGN.md §9.1).
    Tree,
    /// The flat bytecode VM over the lowered IR (default). Measured with
    /// the `perf` benchmark (`crates/bench/src/bin/perf/README.md`), it is
    /// 1.2–1.4× faster than the tree walker on loops and progen programs,
    /// and slower on the short Table-1 runs, where lowering and frame
    /// set-up are not amortised.
    #[default]
    Bytecode,
}

/// A conversion that loses capability information without stopping the
/// run. The tree engine reports each one to its [`Observer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Conversion {
    /// Integer arithmetic moved a capability-carrying value outside its
    /// representable range, so the abstract machine set its ghost state
    /// (§3.3).
    GhostedArith,
    /// A capability-carrying `(u)intptr_t` was narrowed to a plain
    /// integer type.
    CapIntNarrowed,
    /// A pointer was cast to a non-capability integer type.
    PtrToPlainInt,
    /// A non-zero non-capability integer was cast to a pointer under a
    /// profile with capabilities.
    PlainIntToPtr,
}

/// Watches a tree-engine run started with [`Interp::run_observed`]. The
/// bytecode VM never calls one.
pub trait Observer<C: Capability> {
    /// Called at every step, after the engine's own step limit is
    /// checked, with the step count, the current source position and the
    /// memory.
    ///
    /// # Errors
    ///
    /// A message that ends the run as [`Stop::Limit`].
    fn tick(&mut self, steps: u64, pos: Pos, mem: &mut CheriMemory<C>) -> Result<(), String>;

    /// Called when the run performs `conv`, at the position of the
    /// expression that performs it.
    fn conversion(&mut self, conv: Conversion, pos: Pos);
}

/// The end of a run started with [`Interp::run_observed`].
pub struct Observed<C: Capability> {
    /// The status `main` returned, or why the run stopped before that.
    pub end: Result<i64, Stop>,
    /// The position of the last expression, declaration or global
    /// initialiser evaluated: where the run stopped.
    pub pos: Pos,
    /// The memory instance, with the events its sink still holds.
    pub mem: CheriMemory<C>,
}

/// A tree-engine call frame: the function's locals table, borrowed from
/// the typed program, and the object each [`LocalId`] is bound to once
/// its declaration ran.
struct Frame<'p, C: Capability> {
    locals: &'p [TLocal],
    vars: Vec<Option<PtrVal<C>>>,
    to_kill: Vec<PtrVal<C>>,
}

/// The interpreter.
pub struct Interp<'p, C: Capability> {
    prog: &'p TProgram,
    profile: &'p Profile,
    /// The memory object model instance (exposed for statistics).
    pub mem: CheriMemory<C>,
    /// Every object with static storage duration, indexed by [`GlobalId`].
    pub(crate) globals: Vec<PtrVal<C>>,
    func_ptrs: HashMap<String, PtrVal<C>>,
    addr_to_func: HashMap<u64, String>,
    strings: HashMap<String, PtrVal<C>>,
    stdout: String,
    stderr: String,
    steps: u64,
    max_steps: u64,
    pub(crate) call_depth: u32,
    unspecified_reads: u32,
    engine: Engine,
    ir_cache: Option<std::sync::Arc<crate::ir::IrProgram>>,
    /// The bytes of the C strings a builtin is reading, reused across
    /// calls (see [`Interp::read_c_string`]).
    cstr: Vec<u8>,
    /// The tree engine's current source position.
    pos: Pos,
    /// What watches a tree-engine run (see [`Interp::run_observed`]).
    observer: Option<&'p mut dyn Observer<C>>,
}

fn types_size(tt: &TypeTable, ty: &Ty) -> u64 {
    tt.size_of(ty)
}

/// How many calls may be active at once.
const MAX_CALL_DEPTH: u32 = 256;

/// `v` at the precision of `fty`: a `float` result is rounded through
/// f32 (values are kept as f64).
fn round_to(fty: FloatTy, v: f64) -> f64 {
    if fty == FloatTy::F32 {
        f64::from(v as f32)
    } else {
        v
    }
}

impl<'p, C: Capability> Interp<'p, C> {
    /// Create an interpreter for `prog` under `profile`.
    #[must_use]
    pub fn new(prog: &'p TProgram, profile: &'p Profile) -> Self {
        Interp {
            prog,
            profile,
            mem: CheriMemory::new(profile.mem),
            globals: Vec::new(),
            func_ptrs: HashMap::new(),
            addr_to_func: HashMap::new(),
            strings: HashMap::new(),
            stdout: String::new(),
            stderr: String::new(),
            steps: 0,
            max_steps: 50_000_000,
            call_depth: 0,
            unspecified_reads: 0,
            engine: Engine::default(),
            ir_cache: None,
            cstr: Vec::new(),
            pos: Pos::default(),
            observer: None,
        }
    }

    /// Select the execution engine (defaults to [`Engine::Bytecode`]).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Supply a pre-lowered IR program (implies [`Engine::Bytecode`]),
    /// avoiding re-lowering when the same program is run repeatedly —
    /// e.g. across the 7 profiles of a `--all` comparison.
    #[must_use]
    pub fn with_ir(mut self, ir: std::sync::Arc<crate::ir::IrProgram>) -> Self {
        self.ir_cache = Some(ir);
        self.engine = Engine::Bytecode;
        self
    }

    /// Adopt `mem` as this interpreter's memory instance, arena-resetting
    /// it to this profile's configuration first
    /// ([`CheriMemory::reset`]). Paired with [`Interp::run_recycling`],
    /// this lets a long-lived caller (the `cheri-serve` batch workers)
    /// reuse one memory arena across jobs instead of reallocating; the
    /// reset guarantees the observable behaviour is identical to a fresh
    /// instance.
    #[must_use]
    pub fn with_recycled_memory(mut self, mut mem: CheriMemory<C>) -> Self {
        mem.reset(self.profile.mem);
        self.mem = mem;
        self
    }

    /// Run the program: initialise globals and functions, call `main`.
    #[must_use] 
    pub fn run(self) -> RunResult {
        self.run_with_trace().0
    }

    /// Like [`Interp::run`], returning the memory-event trace rendered in
    /// the legacy text format (empty unless [`CheriMemory::enable_trace`]
    /// was called on [`Interp::mem`] first). The trace is what makes the
    /// executable semantics usable as a test oracle (§7).
    #[must_use] 
    pub fn run_with_trace(mut self) -> (RunResult, Vec<String>) {
        let outcome = self.run_to_outcome();
        let trace = self.mem.take_trace();
        (self.into_result(outcome), trace)
    }

    /// Like [`Interp::run`], returning the typed memory-event stream.
    /// Installs a collecting sink if none is present; a terminal
    /// [`MemEvent::Exit`]/[`MemEvent::Ub`]/[`MemEvent::Trap`] event closes
    /// the stream, so two profiles' streams can be diffed end to end with
    /// `cheri_obs::diff`.
    #[must_use]
    pub fn run_with_events(mut self) -> (RunResult, Vec<MemEvent>) {
        if !self.mem.sink_active() {
            self.mem.enable_trace();
        }
        let outcome = self.run_to_outcome();
        let events = self.mem.take_events();
        (self.into_result(outcome), events)
    }

    /// Like [`Interp::run`], additionally returning the memory instance so
    /// the caller can recycle its arena into the next run (see
    /// [`Interp::with_recycled_memory`]).
    #[must_use]
    pub fn run_recycling(mut self) -> (RunResult, CheriMemory<C>) {
        let outcome = self.run_to_outcome();
        self.into_result_and_mem(outcome)
    }

    /// [`Interp::run_with_events`] + [`Interp::run_recycling`]: the typed
    /// event stream *and* the recyclable memory instance.
    #[must_use]
    pub fn run_with_events_recycling(mut self) -> (RunResult, Vec<MemEvent>, CheriMemory<C>) {
        if !self.mem.sink_active() {
            self.mem.enable_trace();
        }
        let outcome = self.run_to_outcome();
        let events = self.mem.take_events();
        let (result, mem) = self.into_result_and_mem(outcome);
        (result, events, mem)
    }

    /// Run on the tree engine with `observer` watching, and return the
    /// typed stop reason, the position reached and the memory. This is
    /// cheri-lint's definite pass: the same semantics as [`Interp::run`],
    /// without its output or terminal event.
    #[must_use]
    pub fn run_observed(mut self, observer: &'p mut dyn Observer<C>) -> Observed<C> {
        self.engine = Engine::Tree;
        self.observer = Some(observer);
        let end = self.run_inner();
        Observed {
            end,
            pos: self.pos,
            mem: self.mem,
        }
    }

    /// Run to completion and emit the terminal event into the sink.
    fn run_to_outcome(&mut self) -> Outcome {
        let outcome = match self.run_inner() {
            Ok(code) => Outcome::Exit(code),
            Err(Stop::Mem(e)) => e.into(),
            Err(Stop::Assert(m)) => Outcome::AssertFailed(m),
            Err(Stop::Abort) => Outcome::Abort,
            Err(Stop::Exit(c)) => Outcome::Exit(c),
            Err(Stop::Limit(m) | Stop::Unsupported(m)) => Outcome::Error(m),
        };
        match &outcome {
            Outcome::Exit(c) => {
                let c = *c;
                self.mem.emit(|| MemEvent::Exit(c));
            }
            Outcome::Ub { ub, .. } => {
                let ub = *ub;
                self.mem.emit(|| MemEvent::Ub(ub));
            }
            Outcome::Trap { kind, .. } => {
                let kind = *kind;
                self.mem.emit(|| MemEvent::Trap(kind));
            }
            // Assertion failures, aborts and interpreter errors have no
            // memory-event counterpart; the stream just ends.
            Outcome::AssertFailed(_) | Outcome::Abort | Outcome::Error(_) => {}
        }
        outcome
    }

    fn into_result(self, outcome: Outcome) -> RunResult {
        RunResult {
            outcome,
            stdout: self.stdout,
            stderr: self.stderr,
            unspecified_reads: self.unspecified_reads,
            mem_stats: self.mem.stats,
        }
    }

    /// [`Interp::into_result`], extracting the memory instance for reuse.
    fn into_result_and_mem(mut self, outcome: Outcome) -> (RunResult, CheriMemory<C>) {
        let mem = std::mem::replace(&mut self.mem, CheriMemory::new(self.profile.mem));
        let result = RunResult {
            outcome,
            stdout: std::mem::take(&mut self.stdout),
            stderr: std::mem::take(&mut self.stderr),
            unspecified_reads: self.unspecified_reads,
            mem_stats: mem.stats,
        };
        (result, mem)
    }

    fn run_inner(&mut self) -> EResult<i64> {
        self.setup_world()?;
        match self.engine {
            Engine::Tree => {
                let prog = self.prog;
                let main = &prog.funcs["main"];
                let v = self.call_function(main, Vec::new())?;
                Ok(exit_code(&v))
            }
            Engine::Bytecode => {
                let ir = match self.ir_cache.take() {
                    Some(ir) => ir,
                    None => {
                        std::sync::Arc::new(crate::ir::lower_for(self.prog, &self.profile.opt))
                    }
                };
                let code = crate::ir::vm::execute(self, ir.as_ref());
                self.ir_cache = Some(ir);
                code
            }
        }
    }

    /// Build the initial world: function sentries, globals (allocated,
    /// zeroed, initialised, frozen if const) and stream handles. Shared
    /// verbatim by both engines, so allocation order — and therefore
    /// every address and provenance identity — is engine-independent.
    fn setup_world(&mut self) -> EResult<()> {
        let prog = self.prog;
        // Function allocations: every defined function gets a 1-byte
        // allocation so function pointers have provenance, bounds and an
        // EXECUTE-permission sentry capability.
        for name in prog.funcs.keys() {
            let p = self
                .mem
                .allocate_kind(name, 1, 16, AllocClass::Function, true, Some(&[0]))?;
            let sentry = PtrVal::new(p.prov, p.cap.seal_entry());
            self.addr_to_func.insert(p.addr(), name.clone());
            self.func_ptrs.insert(name.clone(), sentry);
        }
        // Globals, in declaration order, then the predefined stream
        // handles: the order of [`GlobalId`]s.
        for g in &prog.globals {
            let size = types_size(&prog.types, &g.ty);
            let align = prog.types.align_of(&g.ty);
            let p =
                self.mem
                    .allocate_kind(&g.name, size, align, AllocClass::Static, false, None)?;
            self.globals.push(p);
        }
        for stream in &prog.streams {
            let p = self.mem.allocate_kind(
                stream,
                16,
                16,
                AllocClass::Static,
                false,
                Some(&[0; 16]),
            )?;
            self.globals.push(p);
        }
        // Run global initialisers (in a pseudo-frame that binds no local).
        let mut frame = Frame {
            locals: &[],
            vars: Vec::new(),
            to_kill: Vec::new(),
        };
        for (i, g) in prog.globals.iter().enumerate() {
            self.pos = g.pos;
            // Zero-initialise statics first (C semantics for objects with
            // static storage duration).
            let p = self.globals[i].clone();
            self.mem.memset(&p, 0, types_size(&prog.types, &g.ty))?;
            if let Some(init) = &g.init {
                // A hoisted `static` local's initialiser names its
                // function's locals.
                frame.locals = g.func.as_ref().map_or(&[], |f| &prog.funcs[f].locals);
                self.run_init(&mut frame, &p, &g.ty, init)?;
            }
            if g.is_const {
                self.globals[i] = self.mem.freeze_readonly(&p)?;
            }
        }
        Ok(())
    }

    pub(crate) fn tick(&mut self) -> EResult<()> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(Stop::Limit(STEP_LIMIT.into()));
        }
        Ok(())
    }

    /// The tree engine's step: [`Interp::tick`], then the observer's.
    fn step(&mut self) -> EResult<()> {
        self.tick()?;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.tick(self.steps, self.pos, &mut self.mem)
                .map_err(Stop::Limit)?;
        }
        Ok(())
    }

    fn observe(&mut self, conv: Conversion) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.conversion(conv, self.pos);
        }
    }

    fn ub(&self, ub: Ub, detail: impl Into<String>) -> Stop {
        Stop::Mem(MemError::ub(ub, detail))
    }

    // ── Values and conversions ───────────────────────────────────────────

    /// Materialise an integer constant at a given type: capability-carrying
    /// types get a NULL-derived capability with the value as address.
    pub(crate) fn mk_int(&self, ity: IntTy, v: i128) -> IntVal<C> {
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

    /// Convert an integer value to integer type `to` (the runtime half of
    /// `CastKind::IntToInt`; the source type does not matter).
    fn convert_int(&self, v: &IntVal<C>, to: IntTy) -> IntVal<C> {
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

    /// Derive a capability-carrying arithmetic result (§3.3 option (c)):
    /// the result address is set on the derivation-source capability; if
    /// that makes it non-representable, the tag is cleared and — in the
    /// abstract machine — the ghost state records the excursion.
    fn derive_cap_result(
        &mut self,
        src: &IntVal<C>,
        ity: IntTy,
        addr: i128,
    ) -> IntVal<C> {
        let addr = ity.wrap(addr) as u64;
        let ghosted = match src.as_cap() {
            Some(cap) => {
                cap.tag() && !cap.is_representable(addr) && self.profile.mem.abstract_ub
            }
            None => false,
        };
        let mut out = src.derive_with_address(ity.signed(), addr);
        if ghosted {
            self.observe(Conversion::GhostedArith);
            if let IntVal::Cap { cap, .. } = &mut out {
                *cap = cap.with_ghost(cap.ghost().join(GhostState::UNSPECIFIED));
            }
        } else if let (IntVal::Cap { cap: out_cap, .. }, Some(src_cap)) =
            (&mut out, src.as_cap())
        {
            // Ghost state propagates through derivation.
            *out_cap = out_cap.with_ghost(src_cap.ghost());
        }
        out
    }

    // ── Memory access helpers ────────────────────────────────────────────

    pub(crate) fn load_value(&mut self, p: &PtrVal<C>, ty: &Ty) -> EResult<Value<C>> {
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
            Ty::Ptr { .. } => Ok(Value::Ptr(self.mem.load_ptr(p)?)),
            t => Err(Stop::Unsupported(format!("load of type {t}"))),
        }
    }

    pub(crate) fn store_value(&mut self, p: &PtrVal<C>, ty: &Ty, v: &Value<C>) -> EResult<()> {
        match (ty, v) {
            (Ty::Int(_), Value::Int { v, .. }) => {
                let size = types_size(&self.prog.types, ty);
                if self.profile.opt.o3 && !v.is_cap() {
                    // Optimisation emulation (§3.5): skip stores that leave
                    // memory unchanged — so they do not invalidate stored
                    // capabilities.
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
            (Ty::Ptr { .. }, Value::Ptr(v)) => {
                self.mem.store_ptr(p, v)?;
                Ok(())
            }
            (Ty::Ptr { .. }, Value::Int { v, .. }) => {
                // Storing a capability-carrying integer into a pointer slot
                // (via unions this cannot happen — union members are typed —
                // but conversions can produce it transiently).
                let ptr = self.mem.cast_int_to_ptr(v);
                self.mem.store_ptr(p, &ptr)?;
                Ok(())
            }
            (t, _) => Err(Stop::Unsupported(format!("store of type {t}"))),
        }
    }

    /// §3.8 strict sub-object bounds: when enabled, taking the address of
    /// (or decaying) a struct member or array element narrows the
    /// capability to that sub-object's `size`-byte footprint. The paper's
    /// default (and ours) leaves this off to keep the container-of idiom
    /// working.
    pub(crate) fn narrow_subobject(&self, p: PtrVal<C>, size: u64) -> PtrVal<C> {
        if !self.profile.subobject_bounds || !self.profile.mem.capabilities {
            return p;
        }
        PtrVal::new(p.prov, p.cap.with_bounds(p.addr(), size))
    }

    pub(crate) fn intern_string(&mut self, s: &str) -> EResult<PtrVal<C>> {
        if let Some(p) = self.strings.get(s) {
            return Ok(p.clone());
        }
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        let p = self.mem.allocate_kind(
            "string-literal",
            bytes.len() as u64,
            1,
            AllocClass::StringLiteral,
            true,
            Some(&bytes),
        )?;
        self.strings.insert(s.to_string(), p.clone());
        Ok(p)
    }

    // ── Initialisers ─────────────────────────────────────────────────────

    /// Store the string-literal initialiser `s` and its terminator into
    /// the array at `p`, one byte at the start of each `elem`-byte
    /// element.
    pub(crate) fn init_str(&mut self, p: &PtrVal<C>, s: &str, elem: u64) -> EResult<()> {
        for (i, b) in s.bytes().chain(std::iter::once(0)).enumerate() {
            let ep = self.mem.member_shift(p, i as u64 * elem);
            self.mem.store_int(&ep, 1, &IntVal::Num(i128::from(b)))?;
        }
        Ok(())
    }

    fn run_init(
        &mut self,
        frame: &mut Frame<'p, C>,
        p: &PtrVal<C>,
        ty: &'p Ty,
        init: &'p TInit,
    ) -> EResult<()> {
        let prog = self.prog;
        match (ty, init) {
            (_, TInit::Scalar(e)) => {
                let v = self.eval(frame, e)?;
                self.store_value(p, ty, &v)
            }
            (Ty::Array(elem, _), TInit::Str(s)) => {
                self.init_str(p, s, types_size(&prog.types, elem))
            }
            (Ty::Array(elem, _), TInit::List(items)) => {
                let esz = types_size(&prog.types, elem);
                for (i, item) in items.iter().enumerate() {
                    let ep = self.mem.member_shift(p, i as u64 * esz);
                    self.run_init(frame, &ep, elem, item)?;
                }
                Ok(())
            }
            (Ty::Struct(id) | Ty::Union(id), TInit::List(items)) => {
                for (item, f) in items.iter().zip(&prog.types.structs[id.0].fields) {
                    let fp = self.mem.member_shift(p, f.offset);
                    self.run_init(frame, &fp, &f.ty, item)?;
                }
                Ok(())
            }
            (t, _) => Err(Stop::Unsupported(format!("initialiser for type {t}"))),
        }
    }

    // ── Statements ───────────────────────────────────────────────────────

    fn exec_block(&mut self, frame: &mut Frame<'p, C>, stmts: &'p [TStmt]) -> EResult<Flow<C>> {
        for s in stmts {
            match self.exec(frame, s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, frame: &mut Frame<'p, C>, s: &'p TStmt) -> EResult<Flow<C>> {
        self.step()?;
        match s {
            TStmt::Decl {
                local,
                is_const,
                init,
                pos,
            } => {
                self.pos = *pos;
                let locals = frame.locals;
                let TLocal { name, ty } = &locals[local.0 as usize];
                let size = types_size(&self.prog.types, ty);
                let align = self.prog.types.align_of(ty);
                let pretty = name.split('#').next().unwrap_or(name);
                let p = self.mem.allocate_object(pretty, size, align, false, None)?;
                frame.to_kill.push(p.clone());
                if let Some(init) = init {
                    if matches!(init, TInit::List(_) | TInit::Str(_)) {
                        // Aggregates with initialisers: remaining members
                        // are zero-initialised.
                        self.mem.memset(&p, 0, size)?;
                    }
                    self.run_init(frame, &p, ty, init)?;
                }
                let p = if *is_const {
                    self.mem.freeze_readonly(&p)?
                } else {
                    p
                };
                frame.vars[local.0 as usize] = Some(p);
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
                self.opt_memcpy(&d, &s, &n)?;
                Ok(Flow::Normal)
            }
            TStmt::Empty => Ok(Flow::Normal),
        }
    }

    // ── Expressions ──────────────────────────────────────────────────────

    /// Evaluate an lvalue to its object; the type to access it at is the
    /// lvalue's own `ty`.
    fn eval_lvalue(&mut self, frame: &mut Frame<'p, C>, e: &'p TExpr) -> EResult<PtrVal<C>> {
        match &e.kind {
            TExprKind::LvLocal(l) => match frame.vars.get(l.0 as usize) {
                Some(Some(p)) => Ok(p.clone()),
                _ => Err(Stop::Unsupported(format!(
                    "unbound variable `{}`",
                    frame.locals[l.0 as usize].name
                ))),
            },
            TExprKind::LvGlobal(g) => Ok(self.globals[g.0 as usize].clone()),
            TExprKind::LvDeref(p) => {
                let v = self.eval(frame, p)?;
                self.deref(v)
            }
            TExprKind::LvMember(base, off) => {
                let p = self.eval_lvalue(frame, base)?;
                Ok(self.mem.member_shift(&p, *off))
            }
            _ => Err(Stop::Unsupported("expected lvalue".into())),
        }
    }

    fn eval(&mut self, frame: &mut Frame<'p, C>, e: &'p TExpr) -> EResult<Value<C>> {
        self.step()?;
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
            TExprKind::StrLit(s) => Ok(Value::Ptr(self.intern_string(s)?)),
            TExprKind::LvLocal(_)
            | TExprKind::LvGlobal(_)
            | TExprKind::LvDeref(_)
            | TExprKind::LvMember(..) => {
                // Bare lvalue in value position should not occur (typeck
                // inserts Load), but evaluate to its address for robustness.
                Ok(Value::Ptr(self.eval_lvalue(frame, e)?))
            }
            TExprKind::Load(lv) => {
                let (p, ty) = (self.eval_lvalue(frame, lv)?, &lv.ty);
                self.pos = e.pos;
                self.load_value(&p, ty)
            }
            TExprKind::AddrOf(lv) | TExprKind::Decay(lv) => {
                let p = self.eval_lvalue(frame, lv)?;
                Ok(Value::Ptr(match lv.kind {
                    TExprKind::LvMember(..) => {
                        self.narrow_subobject(p, types_size(&self.prog.types, &lv.ty))
                    }
                    _ => p,
                }))
            }
            TExprKind::FuncAddr(name) => self.func_addr(name),
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
                self.ptr_add(&pv, &iv, *elem, *neg)
            }
            TExprKind::PtrDiff { a, b, elem } => {
                let av = self.eval(frame, a)?;
                let bv = self.eval(frame, b)?;
                self.pos = e.pos;
                self.ptr_diff(&av, &bv, *elem)
            }
            TExprKind::PtrCmp { op, a, b } => {
                let av = self.eval(frame, a)?;
                let bv = self.eval(frame, b)?;
                self.pos = e.pos;
                self.ptr_compare(*op, &av, &bv)
            }
            TExprKind::Cast { kind, arg } => self.eval_cast(frame, e, *kind, arg),
            TExprKind::Assign { lv, rhs } => {
                let (p, ty) = (self.eval_lvalue(frame, lv)?, &lv.ty);
                if matches!(ty, Ty::Struct(_) | Ty::Union(_) | Ty::Array(..)) {
                    // Aggregate assignment: bytewise copy (preserving
                    // capabilities like memcpy).
                    if let TExprKind::Load(src_lv) = &rhs.kind {
                        let src = self.eval_lvalue(frame, src_lv)?;
                        self.pos = e.pos;
                        let n = types_size(&self.prog.types, ty);
                        self.mem.memcpy(&p, &src, n)?;
                        return Ok(Value::Void);
                    }
                    return Err(Stop::Unsupported("aggregate assignment".into()));
                }
                let v = self.eval(frame, rhs)?;
                self.pos = e.pos;
                self.store_value(&p, ty, &v)?;
                Ok(v)
            }
            TExprKind::AssignOp {
                lv,
                op,
                rhs,
                common,
                derive,
            } => {
                let (p, ty) = (self.eval_lvalue(frame, lv)?, &lv.ty);
                let out = if let Some(cf) = common.as_float() {
                    let cur = self.load_value(&p, ty)?;
                    let rv = self.eval(frame, rhs)?;
                    self.pos = e.pos;
                    self.assign_op_float(*op, &cur, &rv, cf, ty)?
                } else {
                    let lt = ty.as_int().ok_or_else(|| {
                        Stop::Unsupported("compound assignment on non-integer".into())
                    })?;
                    let ct = common.as_int().expect("common type is integer");
                    let cur = self.load_value(&p, ty)?;
                    let rv = self.eval(frame, rhs)?;
                    self.pos = e.pos;
                    self.assign_op_int(*op, &cur, &rv, lt, ct, *derive)?
                };
                self.store_value(&p, ty, &out)?;
                Ok(out)
            }
            TExprKind::PtrAssignAdd { lv, idx, elem, neg } => {
                let (p, ty) = (self.eval_lvalue(frame, lv)?, &lv.ty);
                let cur = self.load_value(&p, ty)?;
                let iv = self.eval(frame, idx)?;
                self.pos = e.pos;
                let out = self.ptr_add(&cur, &iv, *elem, *neg)?;
                self.store_value(&p, ty, &out)?;
                Ok(out)
            }
            TExprKind::IncDec {
                lv,
                inc,
                prefix,
                elem,
            } => {
                let (p, ty) = (self.eval_lvalue(frame, lv)?, &lv.ty);
                self.pos = e.pos;
                let old = self.load_value(&p, ty)?;
                let new = self.inc_dec(&old, *inc, *elem)?;
                self.store_value(&p, ty, &new)?;
                Ok(if *prefix { new } else { old })
            }
            TExprKind::Call { callee, args } => self.eval_call(frame, e.pos, callee, args),
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
        frame: &mut Frame<'p, C>,
        e: &'p TExpr,
        kind: CastKind,
        arg: &'p TExpr,
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
                let to = e.ty.as_int().expect("int target");
                let from = arg.ty.as_int().expect("int source");
                if from.is_capability()
                    && !to.is_capability()
                    && av.as_int().is_some_and(IntVal::is_cap)
                {
                    self.observe(Conversion::CapIntNarrowed);
                }
                self.int_to_int(&av, to)
            }
            CastKind::PtrToInt => {
                let to = e.ty.as_int().expect("int target");
                if !to.is_capability() && av.as_ptr().is_some() {
                    self.observe(Conversion::PtrToPlainInt);
                }
                self.ptr_to_int(&av, to, types_size(&self.prog.types, &e.ty))
            }
            CastKind::IntToPtr => {
                if self.profile.mem.capabilities
                    && av.as_int().is_some_and(|v| !v.is_cap() && v.value() != 0)
                {
                    self.observe(Conversion::PlainIntToPtr);
                }
                self.int_to_ptr(&av)
            }
            CastKind::IntToFloat => self.int_to_float(&av, e.ty.as_float().expect("float target")),
            CastKind::FloatToInt => self.float_to_int(&av, e.ty.as_int().expect("int target")),
            CastKind::FloatToFloat => {
                self.float_to_float(&av, e.ty.as_float().expect("float target"))
            }
            CastKind::PtrToPtr => self.ptr_to_ptr(&av),
        }
    }

    pub(crate) fn binary_int(
        &mut self,
        op: BinOp,
        l: &Value<C>,
        r: &Value<C>,
        ity: IntTy,
        derive: DeriveFrom,
    ) -> EResult<Value<C>> {
        let (lv, rv) = match (l.as_int(), r.as_int()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(Stop::Unsupported("integer operation on non-integers".into())),
        };
        let b = rv.value();
        let raw = ity.arith(op, lv.value(), b).map_err(|ub| {
            let detail = match (ub, op) {
                (Ub::ShiftOutOfRange, _) => return self.ub(ub, format!("shift by {b}")),
                (Ub::DivisionByZero, BinOp::Div) => "division by zero",
                (Ub::DivisionByZero, _) => "remainder by zero",
                (_, BinOp::Div) => "INT_MIN / -1",
                (_, BinOp::Rem) => "INT_MIN % -1",
                (_, BinOp::Shl) => "left shift overflow",
                (_, BinOp::Mul) => "multiplication overflow",
                _ => "arithmetic overflow",
            };
            self.ub(ub, detail)
        })?;
        if op.is_comparison() {
            // §3.6: address-only comparison for capability-carrying values.
            return Ok(Value::Int { ity: IntTy::Int, v: IntVal::Num(raw) });
        }
        let v = if ity.is_capability() {
            let src = match derive {
                DeriveFrom::Left => lv,
                DeriveFrom::Right => rv,
            };
            self.derive_cap_result(src, ity, raw)
        } else {
            IntVal::Num(ity.wrap(raw))
        };
        Ok(Value::Int { ity, v })
    }

    pub(crate) fn binary_float(
        &mut self,
        op: BinOp,
        l: &Value<C>,
        r: &Value<C>,
        res_ty: &Ty,
    ) -> EResult<Value<C>> {
        let (a, b) = match (l.as_float(), r.as_float()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(Stop::Unsupported("mixed float operands".into())),
        };
        if let Some(res) = op.compare(a.partial_cmp(&b)) {
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
            BinOp::Div => a / b, // IEEE: x/0 is ±inf/NaN, not UB
            _ => return Err(Stop::Unsupported("float operator".into())),
        };
        Ok(Value::Float { fty, v: round_to(fty, v) })
    }

    pub(crate) fn unary_int(&mut self, op: UnOp, a: &Value<C>, ity: IntTy) -> EResult<Value<C>> {
        match (op, a) {
            (UnOp::LogNot, _) => Ok(Value::Int {
                ity: IntTy::Int,
                v: IntVal::Num(i128::from(!a.truthy())),
            }),
            (UnOp::Plus, _) => Ok(a.clone()),
            (UnOp::Neg, Value::Float { fty, v }) => Ok(Value::Float { fty: *fty, v: -v }),
            (UnOp::Neg | UnOp::BitNot, _) => {
                let v = a
                    .as_int()
                    .ok_or_else(|| Stop::Unsupported("unary arithmetic operand".into()))?;
                let raw = ity
                    .arith_unary(op, v.value())
                    .map_err(|ub| self.ub(ub, "negation overflow"))?;
                let out = if ity.is_capability() {
                    self.derive_cap_result(v, ity, raw)
                } else {
                    IntVal::Num(ity.wrap(raw))
                };
                Ok(Value::Int { ity, v: out })
            }
        }
    }

    // ── Operations both engines perform ──────────────────────────────────
    //
    // The tree walker and both forms of the VM (memory and `--fast`
    // register) call these, so each C operation has one body. The callers
    // only fetch the operands and put the result where it belongs.

    /// `++`/`--` (ISO 6.5.2.4, 6.5.3.1): `old` moved by one, where a
    /// pointer (`elem > 0`) moves by one `elem`-byte element.
    #[inline]
    pub(crate) fn inc_dec(&mut self, old: &Value<C>, inc: bool, elem: u64) -> EResult<Value<C>> {
        let delta = if inc { 1 } else { -1 };
        match old {
            Value::Ptr(v) if elem > 0 => Ok(Value::Ptr(self.mem.array_shift(v, elem, delta)?)),
            Value::Int { ity, v } => {
                let raw = ity
                    .arith(BinOp::Add, v.value(), i128::from(delta))
                    .map_err(|ub| self.ub(ub, "increment overflow"))?;
                let v = if ity.is_capability() {
                    self.derive_cap_result(v, *ity, raw)
                } else {
                    IntVal::Num(ity.wrap(raw))
                };
                Ok(Value::Int { ity: *ity, v })
            }
            _ => Err(Stop::Unsupported("increment target".into())),
        }
    }

    /// Integer `lv op= rhs` (ISO 6.5.16.2): the target's value `cur` (of
    /// type `lt`) is converted to the common type `ct`, combined with
    /// `rhs`, and the result converted back to `lt`.
    #[inline]
    pub(crate) fn assign_op_int(
        &mut self,
        op: BinOp,
        cur: &Value<C>,
        rhs: &Value<C>,
        lt: IntTy,
        ct: IntTy,
        derive: DeriveFrom,
    ) -> EResult<Value<C>> {
        let cur = cur
            .as_int()
            .ok_or_else(|| Stop::Unsupported("compound assignment load".into()))?;
        let cur = Value::Int { ity: ct, v: self.convert_int(cur, ct) };
        if rhs.as_int().is_none() {
            return Err(Stop::Unsupported("compound assignment rhs".into()));
        }
        match self.binary_int(op, &cur, rhs, ct, derive)? {
            Value::Int { v, .. } => Ok(Value::Int { ity: lt, v: self.convert_int(&v, lt) }),
            _ => Err(Stop::Unsupported("compound assignment result".into())),
        }
    }

    /// `lv op= rhs` at the floating common type `common`; the result is
    /// converted to the target's type `ty` as a cast would.
    #[inline]
    pub(crate) fn assign_op_float(
        &mut self,
        op: BinOp,
        cur: &Value<C>,
        rhs: &Value<C>,
        common: FloatTy,
        ty: &Ty,
    ) -> EResult<Value<C>> {
        let cur = match cur {
            Value::Float { v, .. } => *v,
            Value::Int { v, .. } => v.value() as f64,
            _ => return Err(Stop::Unsupported("compound float target".into())),
        };
        let cur = Value::Float { fty: common, v: cur };
        let res = self.binary_float(op, &cur, rhs, &Ty::Float(common))?;
        match ty {
            Ty::Float(fty) => self.float_to_float(&res, *fty),
            Ty::Int(ity) => self.float_to_int(&res, *ity),
            t => Err(Stop::Unsupported(format!("compound target {t}"))),
        }
    }

    /// `ptr ± idx` (ISO 6.5.6p8, §3.2): `ptr` moved by `idx` elements of
    /// `elem` bytes. `lv += idx` and `lv -= idx` on a pointer compute
    /// their new value with it too.
    #[inline]
    pub(crate) fn ptr_add(
        &mut self,
        ptr: &Value<C>,
        idx: &Value<C>,
        elem: u64,
        neg: bool,
    ) -> EResult<Value<C>> {
        let p = ptr
            .as_ptr()
            .ok_or_else(|| Stop::Unsupported("pointer arithmetic on non-pointer".into()))?;
        let i = idx.as_int().map(IntVal::value).unwrap_or(0);
        let i = if neg { -i } else { i };
        Ok(Value::Ptr(self.mem.array_shift(p, elem, i as i64)?))
    }

    /// `a - b` in elements of `elem` bytes (ISO 6.5.6p9), as a `long`.
    pub(crate) fn ptr_diff(&mut self, a: &Value<C>, b: &Value<C>, elem: u64) -> EResult<Value<C>> {
        let (Some(a), Some(b)) = (a.as_ptr(), b.as_ptr()) else {
            return Err(Stop::Unsupported("pointer difference operands".into()));
        };
        let d = self.mem.ptr_diff(a, b, elem)?;
        Ok(Value::Int { ity: IntTy::Long, v: IntVal::Num(i128::from(d)) })
    }

    /// `a op b` for pointers (§3.6): equality compares provenance-aware,
    /// the relational operators through the memory model.
    pub(crate) fn ptr_compare(
        &mut self,
        op: BinOp,
        a: &Value<C>,
        b: &Value<C>,
    ) -> EResult<Value<C>> {
        let (Some(a), Some(b)) = (a.as_ptr(), b.as_ptr()) else {
            return Err(Stop::Unsupported("pointer comparison operands".into()));
        };
        let r = match op {
            BinOp::Eq => self.mem.ptr_eq(a, b),
            BinOp::Ne => !self.mem.ptr_eq(a, b),
            _ if op.is_relational() => op.compare(Some(self.mem.ptr_rel_cmp(a, b)?)) == Some(true),
            // Only a malformed program gets here (typeck and lowering emit
            // comparisons only); a long-lived service must not panic on it.
            _ => {
                return Err(Stop::Unsupported(format!(
                    "malformed program: `{op:?}` is not a pointer comparison"
                )))
            }
        };
        Ok(Value::Int { ity: IntTy::Int, v: IntVal::Num(i128::from(r)) })
    }

    /// The object `*v` designates: a pointer, or an integer cast to one.
    pub(crate) fn deref(&mut self, v: Value<C>) -> EResult<PtrVal<C>> {
        match v {
            Value::Ptr(p) => Ok(p),
            Value::Int { v, .. } => Ok(self.mem.cast_int_to_ptr(&v)),
            Value::Float { .. } | Value::Void => {
                Err(Stop::Unsupported("deref of non-pointer".into()))
            }
        }
    }

    /// `&f` for the function named `name`: its sentry capability.
    pub(crate) fn func_addr(&self, name: &str) -> EResult<Value<C>> {
        self.func_ptrs
            .get(name)
            .map(|p| Value::Ptr(p.clone()))
            .ok_or_else(|| Stop::Unsupported(format!("unknown function `{name}`")))
    }

    /// The entry of `funcs`, the engine's function table, that a call
    /// through the function pointer `fv` enters. Under a capability
    /// profile the pointer must be tagged and executable.
    pub(crate) fn indirect_callee<'f, F>(
        &self,
        fv: &Value<C>,
        funcs: &'f BTreeMap<String, F>,
    ) -> EResult<&'f F> {
        let p = fv
            .as_ptr()
            .ok_or_else(|| Stop::Unsupported("indirect call operand".into()))?;
        if self.profile.mem.capabilities {
            if !p.cap.tag() {
                return Err(self.ub(Ub::CheriInvalidCap, "call via untagged function pointer"));
            }
            if !p.cap.perms().contains(Perms::EXECUTE) {
                return Err(self.ub(
                    Ub::CheriInsufficientPermissions,
                    "call via non-executable capability",
                ));
            }
        }
        let name = self
            .addr_to_func
            .get(&p.addr())
            .ok_or_else(|| Stop::Unsupported("indirect call to non-function".into()))?;
        funcs
            .get(name)
            .ok_or_else(|| Stop::Unsupported(format!("call of undefined `{name}`")))
    }

    /// Count a call in: at most [`MAX_CALL_DEPTH`] may be active. The
    /// caller counts it out (`call_depth -= 1`) when the callee's frame
    /// is gone.
    pub(crate) fn enter_call(&mut self) -> EResult<()> {
        if self.call_depth == MAX_CALL_DEPTH {
            return Err(Stop::Limit("call depth exceeded".into()));
        }
        self.call_depth += 1;
        Ok(())
    }

    /// The §3.5 recognised byte-copy loop, run as one `memcpy`.
    pub(crate) fn opt_memcpy(&mut self, d: &Value<C>, s: &Value<C>, n: &Value<C>) -> EResult<()> {
        let (Some(d), Some(s)) = (d.as_ptr(), s.as_ptr()) else {
            return Err(Stop::Unsupported("OptMemcpy operands".into()));
        };
        // A non-integer length is a malformed program, not "copy nothing".
        let n = n
            .as_int()
            .map(IntVal::value)
            .ok_or_else(|| Stop::Unsupported("OptMemcpy length is not an integer".into()))?;
        self.mem.memcpy(d, s, n as u64)?;
        Ok(())
    }

    // ── Scalar casts (the runtime half of `CastKind`) ───────────────────

    /// `(to) v` for an integer `v`.
    #[inline]
    pub(crate) fn int_to_int(&self, v: &Value<C>, to: IntTy) -> EResult<Value<C>> {
        let v = v
            .as_int()
            .ok_or_else(|| Stop::Unsupported("int cast operand".into()))?;
        Ok(Value::Int { ity: to, v: self.convert_int(v, to) })
    }

    /// `(to) p` for a pointer `p`; `size` is the size of `to` in bytes.
    pub(crate) fn ptr_to_int(&mut self, v: &Value<C>, to: IntTy, size: u64) -> EResult<Value<C>> {
        let p = v
            .as_ptr()
            .ok_or_else(|| Stop::Unsupported("pointer cast operand".into()))?;
        let v = self
            .mem
            .cast_ptr_to_int(p, to.is_capability(), to.signed(), size);
        Ok(Value::Int { ity: to, v })
    }

    /// `(T *) v` for an integer `v` (PNVI-ae-udi).
    pub(crate) fn int_to_ptr(&mut self, v: &Value<C>) -> EResult<Value<C>> {
        let v = v
            .as_int()
            .ok_or_else(|| Stop::Unsupported("int-to-pointer operand".into()))?;
        Ok(Value::Ptr(self.mem.cast_int_to_ptr(v)))
    }

    /// `(T *) p` for a pointer `p`: the capability is unchanged (§3.9).
    pub(crate) fn ptr_to_ptr(&self, v: &Value<C>) -> EResult<Value<C>> {
        if v.as_ptr().is_none() {
            return Err(Stop::Unsupported("pointer cast operand".into()));
        }
        Ok(v.clone())
    }

    /// `(fty) v` for an integer `v`.
    pub(crate) fn int_to_float(&self, v: &Value<C>, fty: FloatTy) -> EResult<Value<C>> {
        let n = v
            .as_int()
            .map(IntVal::value)
            .ok_or_else(|| Stop::Unsupported("int-to-float operand".into()))?;
        Ok(Value::Float { fty, v: round_to(fty, n as f64) })
    }

    /// `(to) f` for a floating `f`, truncated toward zero: UB if the
    /// result is not representable in `to` (ISO 6.3.1.4p1).
    pub(crate) fn float_to_int(&self, v: &Value<C>, to: IntTy) -> EResult<Value<C>> {
        let t = v
            .as_float()
            .ok_or_else(|| Stop::Unsupported("float-to-int operand".into()))?
            .trunc();
        if !t.is_finite() || t < to.min() as f64 || t > to.max() as f64 {
            return Err(self.ub(Ub::SignedOverflow, "float-to-int out of range"));
        }
        Ok(Value::Int { ity: to, v: self.mk_int(to, t as i128) })
    }

    /// `(fty) f` for a floating `f`.
    pub(crate) fn float_to_float(&self, v: &Value<C>, fty: FloatTy) -> EResult<Value<C>> {
        let f = v
            .as_float()
            .ok_or_else(|| Stop::Unsupported("float cast operand".into()))?;
        Ok(Value::Float { fty, v: round_to(fty, f) })
    }

    // ── Calls ────────────────────────────────────────────────────────────

    fn eval_call(
        &mut self,
        frame: &mut Frame<'p, C>,
        pos: Pos,
        callee: &'p Callee,
        args: &'p [TExpr],
    ) -> EResult<Value<C>> {
        let prog = self.prog;
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(frame, a)?);
        }
        self.pos = pos;
        match callee {
            Callee::Direct(name) => {
                let f = prog
                    .funcs
                    .get(name)
                    .ok_or_else(|| Stop::Unsupported(format!("call of undefined `{name}`")))?;
                self.call_function(f, argv)
            }
            Callee::Indirect(fe) => {
                let fv = self.eval(frame, fe)?;
                self.pos = pos;
                let f = self.indirect_callee(&fv, &prog.funcs)?;
                self.call_function(f, argv)
            }
            Callee::Builtin(b) => self.eval_builtin(*b, &argv),
        }
    }

    fn call_function(&mut self, f: &'p TFunc, args: Vec<Value<C>>) -> EResult<Value<C>> {
        self.enter_call()?;
        let mut frame = Frame {
            locals: &f.locals,
            vars: vec![None; f.locals.len()],
            to_kill: Vec::new(),
        };
        let params = f.locals[..f.n_params].iter().zip(&mut frame.vars);
        for ((TLocal { name, ty }, var), v) in params.zip(args) {
            let size = types_size(&self.prog.types, ty);
            let align = self.prog.types.align_of(ty);
            let pretty = name.split('#').next().unwrap_or(name);
            let p = self.mem.allocate_object(pretty, size, align, false, None)?;
            self.store_value(&p, ty, &v)?;
            frame.to_kill.push(p.clone());
            *var = Some(p);
        }
        let flow = self.exec_block(&mut frame, &f.body);
        // End the lifetime of the locals regardless of how the body exited.
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

    // ── Builtins and intrinsics ──────────────────────────────────────────

    /// Evaluate a builtin or CHERI intrinsic on its argument values.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn eval_builtin(&mut self, b: Builtin, args: &[Value<C>]) -> EResult<Value<C>> {
        use Builtin::*;
        let int_result = |ity: IntTy, v: i128| -> EResult<Value<C>> {
            Ok(Value::Int {
                ity,
                v: IntVal::Num(ity.wrap(v)),
            })
        };
        // Capability argument accessor: pointer or (u)intptr_t.
        let cap_of = |v: &Value<C>| -> EResult<C> {
            v.cap()
                .cloned()
                .ok_or_else(|| Stop::Unsupported("capability argument expected".into()))
        };
        // Rewrap a derived capability as the argument's kind of value (the
        // polymorphic return of §4.5).
        let rewrap = |orig: &Value<C>, cap: C| -> Value<C> {
            match orig {
                Value::Ptr(v) => Value::Ptr(PtrVal::new(v.prov, cap)),
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
        let ptr_pair = |what: &str| -> EResult<(&PtrVal<C>, &PtrVal<C>)> {
            match (args[0].as_ptr(), args[1].as_ptr()) {
                (Some(a), Some(b)) => Ok((a, b)),
                _ => Err(Stop::Unsupported(format!("{what} operands"))),
            }
        };
        match b {
            Printf | Fprintf => {
                let skip = usize::from(b == Fprintf);
                let fmt_ptr = args
                    .get(skip)
                    .and_then(Value::as_ptr)
                    .ok_or_else(|| Stop::Unsupported("format string expected".into()))?;
                self.read_c_string(fmt_ptr)?;
                let fmt = String::from_utf8_lossy(&self.cstr).into_owned();
                let rendered = self.format(&fmt, &args[skip + 1..])?;
                if b == Fprintf {
                    self.stderr.push_str(&rendered);
                } else {
                    self.stdout.push_str(&rendered);
                }
                int_result(IntTy::Int, rendered.len() as i128)
            }
            Assert => {
                if args[0].truthy() {
                    Ok(Value::Void)
                } else {
                    Err(Stop::Assert("assertion failed".into()))
                }
            }
            Abort => Err(Stop::Abort),
            Exit => {
                let code = args[0].as_int().map(IntVal::value).unwrap_or(0);
                Err(Stop::Exit(code as i64))
            }
            Malloc => {
                let n = args[0].as_int().map(IntVal::value).unwrap_or(0) as u64;
                Ok(Value::Ptr(self.mem.allocate_region(n, 16)?))
            }
            Calloc => {
                let n = args[0].as_int().map(IntVal::value).unwrap_or(0) as u64;
                let sz = args[1].as_int().map(IntVal::value).unwrap_or(0) as u64;
                let total = n.checked_mul(sz).ok_or_else(|| {
                    Stop::Mem(MemError::Fail("calloc size overflow".into()))
                })?;
                let p = self.mem.allocate_region(total, 16)?;
                self.mem.memset(&p, 0, total)?;
                Ok(Value::Ptr(p))
            }
            Free => {
                let p = args[0]
                    .as_ptr()
                    .ok_or_else(|| Stop::Unsupported("free of non-pointer".into()))?;
                self.mem.kill(p, true)?;
                Ok(Value::Void)
            }
            Realloc => {
                let p = args[0]
                    .as_ptr()
                    .ok_or_else(|| Stop::Unsupported("realloc of non-pointer".into()))?;
                let n = args[1].as_int().map(IntVal::value).unwrap_or(0) as u64;
                Ok(Value::Ptr(self.mem.reallocate(p, n)?))
            }
            Memcpy | Memmove => {
                let n = args[2].as_int().map(IntVal::value).unwrap_or(0) as u64;
                let (d, s) = ptr_pair("memcpy")?;
                self.mem.memcpy(d, s, n)?;
                Ok(Value::Ptr(d.clone()))
            }
            Memset => {
                let d = args[0]
                    .as_ptr()
                    .ok_or_else(|| Stop::Unsupported("memset operand".into()))?;
                let c = args[1].as_int().map(IntVal::value).unwrap_or(0) as u8;
                let n = args[2].as_int().map(IntVal::value).unwrap_or(0) as u64;
                self.mem.memset(d, c, n)?;
                Ok(Value::Ptr(d.clone()))
            }
            Memcmp => {
                let n = args[2].as_int().map(IntVal::value).unwrap_or(0) as u64;
                let (a, bp) = ptr_pair("memcmp")?;
                let r = self.mem.memcmp(a, bp, n)?;
                int_result(IntTy::Int, i128::from(r))
            }
            Strlen => {
                let p = args[0]
                    .as_ptr()
                    .ok_or_else(|| Stop::Unsupported("strlen operand".into()))?;
                let len = self.read_c_string(p)?;
                int_result(IntTy::ULong, len as i128)
            }
            Strcmp => {
                let (a, bp) = ptr_pair("strcmp")?;
                // Both strings share the buffer: `a`'s bytes, then `b`'s.
                let la = self.read_c_string(a)?;
                self.append_c_string(bp)?;
                let (sa, sb) = self.cstr.split_at(la);
                // C compares as `unsigned char`, which is the byte order.
                int_result(IntTy::Int, i128::from(match sa.cmp(sb) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            Strcpy => {
                let (d, s) = ptr_pair("strcpy")?;
                let len = self.read_c_string(s)?;
                self.mem.memcpy(d, s, len as u64 + 1)?;
                Ok(Value::Ptr(d.clone()))
            }
            PrintCap => {
                let line = self.render_cap_value(&args[0]);
                self.stdout.push_str(&line);
                self.stdout.push('\n');
                Ok(Value::Void)
            }
            Fabs | Sqrt => {
                let x = args[0].as_float().unwrap_or(0.0);
                let v = if b == Fabs { x.abs() } else { x.sqrt() };
                Ok(Value::Float {
                    fty: FloatTy::F64,
                    v,
                })
            }
            CheriTagGet | CheriIsValid => {
                let c = cap_of(&args[0])?;
                // §3.5: the tag of a ghost-unspecified capability reads as
                // an *unspecified* boolean; we concretise to false and count.
                let v = if c.ghost().tag_unspecified {
                    self.unspecified_reads += 1;
                    false
                } else {
                    c.tag()
                };
                int_result(IntTy::Bool, i128::from(v))
            }
            CheriTagClear => {
                let c = cap_of(&args[0])?;
                Ok(rewrap(&args[0], c.clear_tag()))
            }
            CheriSentryCreate => {
                let c = cap_of(&args[0])?;
                Ok(rewrap(&args[0], c.seal_entry()))
            }
            CheriAddressGet => {
                let c = cap_of(&args[0])?;
                int_result(IntTy::PtrAddr, i128::from(c.address()))
            }
            CheriBaseGet => {
                let c = cap_of(&args[0])?;
                let v = if c.ghost().bounds_unspecified {
                    self.unspecified_reads += 1;
                    0
                } else {
                    c.bounds().base
                };
                int_result(IntTy::PtrAddr, i128::from(v))
            }
            CheriLengthGet => {
                let c = cap_of(&args[0])?;
                let v = if c.ghost().bounds_unspecified {
                    self.unspecified_reads += 1;
                    0
                } else {
                    c.bounds().length()
                };
                int_result(IntTy::ULong, i128::from(v))
            }
            CheriOffsetGet => {
                let c = cap_of(&args[0])?;
                int_result(
                    IntTy::ULong,
                    i128::from(c.address().wrapping_sub(c.bounds().base)),
                )
            }
            CheriOffsetSet => {
                let c = cap_of(&args[0])?;
                let off = args[1].as_int().map(IntVal::value).unwrap_or(0) as u64;
                let new = c.with_address(c.bounds().base.wrapping_add(off));
                Ok(rewrap(&args[0], new))
            }
            CheriAddressSet => {
                let c = cap_of(&args[0])?;
                let a = args[1].as_int().map(IntVal::value).unwrap_or(0) as u64;
                Ok(rewrap(&args[0], c.with_address(a)))
            }
            CheriPermsGet => {
                let c = cap_of(&args[0])?;
                int_result(IntTy::ULong, i128::from(c.perms().bits()))
            }
            CheriPermsAnd => {
                let c = cap_of(&args[0])?;
                let mask = args[1].as_int().map(IntVal::value).unwrap_or(0) as u32;
                Ok(rewrap(
                    &args[0],
                    c.with_perms_and(Perms::from_bits_truncate(mask)),
                ))
            }
            CheriBoundsSet | CheriBoundsSetExact => {
                let c = cap_of(&args[0])?;
                let len = args[1].as_int().map(IntVal::value).unwrap_or(0) as u64;
                let new = if b == CheriBoundsSetExact {
                    c.with_bounds_exact(c.address(), len)
                } else {
                    c.with_bounds(c.address(), len)
                };
                Ok(rewrap(&args[0], new))
            }
            CheriIsEqualExact => {
                let a = cap_of(&args[0])?;
                let c = cap_of(&args[1])?;
                // §3.6: unspecified if either side has ghost state set.
                let v = if !a.ghost().is_clean() || !c.ghost().is_clean() {
                    self.unspecified_reads += 1;
                    false
                } else {
                    a.exact_eq(&c)
                };
                int_result(IntTy::Bool, i128::from(v))
            }
            CheriIsSubset => {
                let a = cap_of(&args[0])?;
                let c = cap_of(&args[1])?;
                let v = a.bounds().base >= c.bounds().base
                    && a.bounds().top <= c.bounds().top
                    && a.perms().is_subset_of(c.perms());
                int_result(IntTy::Bool, i128::from(v))
            }
            CheriReprLength => {
                let n = args[0].as_int().map(IntVal::value).unwrap_or(0) as u64;
                int_result(IntTy::ULong, i128::from(C::representable_length(n)))
            }
            CheriReprAlignMask => {
                let n = args[0].as_int().map(IntVal::value).unwrap_or(0) as u64;
                int_result(
                    IntTy::ULong,
                    i128::from(C::representable_alignment_mask(n)),
                )
            }
            CheriSeal => {
                let c = cap_of(&args[0])?;
                let auth = cap_of(&args[1])?;
                let new = c.seal(&auth).unwrap_or_else(|_| c.clear_tag());
                Ok(rewrap(&args[0], new))
            }
            CheriUnseal => {
                let c = cap_of(&args[0])?;
                let auth = cap_of(&args[1])?;
                let new = c.unseal(&auth).unwrap_or_else(|_| c.clear_tag());
                Ok(rewrap(&args[0], new))
            }
            CheriIsSealed => {
                let c = cap_of(&args[0])?;
                int_result(IntTy::Bool, i128::from(c.is_sealed()))
            }
            CheriTypeGet => {
                let c = cap_of(&args[0])?;
                int_result(IntTy::Long, i128::from(c.otype().value()))
            }
            CheriFlagsGet => {
                let c = cap_of(&args[0])?;
                int_result(IntTy::ULong, i128::from(c.flags()))
            }
            CheriFlagsSet => {
                let c = cap_of(&args[0])?;
                let f = args[1].as_int().map(IntVal::value).unwrap_or(0) as u8;
                Ok(rewrap(&args[0], c.with_flags(f)))
            }
            CheriDdcGet | CheriPccGet => {
                // DDC: every data authority including seal/unseal, but not
                // execute; PCC: the code authority.
                let cap = if b == CheriDdcGet {
                    C::root().with_perms_and(!Perms::EXECUTE)
                } else {
                    C::root().with_perms_and(Perms::code() | Perms::LOAD)
                };
                Ok(Value::Ptr(PtrVal::new(Provenance::Empty, cap)))
            }
        }
    }

    /// Read the NUL-terminated C string at `p` into the reusable buffer
    /// `self.cstr` (without its terminator) and return its length in
    /// bytes. The bytes stay bytes: only `printf` decodes them, for output.
    fn read_c_string(&mut self, p: &PtrVal<C>) -> EResult<usize> {
        self.cstr.clear();
        self.append_c_string(p)
    }

    /// [`Interp::read_c_string`] after the bytes already in the buffer:
    /// one bounds-checked byte load per character, terminator included.
    fn append_c_string(&mut self, p: &PtrVal<C>) -> EResult<usize> {
        let start = self.cstr.len();
        if self.append_c_string_upto(p, 65536)? {
            Ok(self.cstr.len() - start)
        } else {
            Err(Stop::Limit("unterminated string".into()))
        }
    }

    /// Append at most `max` bytes of the C string at `p` to the buffer,
    /// loading no byte past the `max`-th (`printf`'s `%.Ns`). Whether it
    /// reached the terminator.
    fn append_c_string_upto(&mut self, p: &PtrVal<C>, max: usize) -> EResult<bool> {
        for i in 0..max as i64 {
            let q = self.mem.array_shift(p, 1, i)?;
            let b = self.mem.load_int(&q, 1, false, false)?.value() as u8;
            if b == 0 {
                return Ok(true);
            }
            self.cstr.push(b);
        }
        Ok(false)
    }

    /// Render a capability-carrying value in the Appendix A format. The
    /// reference semantics prints the provenance (`(@86, 0x… […])`), the
    /// hardware profiles print the bare capability (`0x… […]`), matching
    /// the respective rows of the paper's sample output.
    fn render_cap_value(&self, v: &Value<C>) -> String {
        let with_prov = self.profile.mem.abstract_ub;
        let (cap, prov) = match v {
            Value::Ptr(v) => (Some(&v.cap), v.prov),
            Value::Int { v, .. } => match v {
                IntVal::Cap { cap, prov, .. } => (Some(cap), *prov),
                IntVal::Num(n) => return format!("{n}"),
            },
            Value::Float { v, .. } => return format!("{v}"),
            Value::Void => return "<void>".into(),
        };
        let cap = cap.expect("capability value");
        if with_prov {
            format!("({prov}, {})", cheri_cap::CapDisplay(cap))
        } else {
            format!("{}", cheri_cap::CapDisplay(cap))
        }
    }

    /// `printf`'s formatting (C11 7.21.6.1) of `fmt` with `args`: the
    /// conversions `d i u o x X c s f F e E g G p %` with the flags,
    /// width, precision and length modifiers [`Spec::parse`] reads. A
    /// conversion without its argument prints nothing; any other
    /// conversion stops the run as unsupported.
    fn format(&mut self, fmt: &str, args: &[Value<C>]) -> EResult<String> {
        let mut out = String::new();
        let bytes = fmt.as_bytes();
        let mut args = args.iter();
        let mut at = 0;
        while let Some(off) = bytes[at..].iter().position(|&b| b == b'%') {
            out.push_str(&fmt[at..at + off]);
            at += off + 1;
            let star = || match args.next() {
                Some(Value::Int { v, .. }) => v.value(),
                _ => 0,
            };
            let spec = Spec::parse(bytes, &mut at, star);
            if spec.field() > printf::MAX_FIELD {
                return Err(Stop::Limit(format!(
                    "printf field of {} bytes (at most {})",
                    spec.field(),
                    printf::MAX_FIELD
                )));
            }
            let Some(&conv) = bytes.get(at) else {
                return Err(Stop::Unsupported(
                    "printf format ends inside a conversion".into(),
                ));
            };
            at += 1;
            if conv == b'%' {
                out.push('%');
                continue;
            }
            if !b"diuoxXcsfFeEgGp".contains(&conv) {
                let c = fmt[at - 1..].chars().next().unwrap_or('?');
                return Err(Stop::Unsupported(format!(
                    "unsupported printf conversion `%{c}`"
                )));
            }
            let Some(v) = args.next() else { continue };
            match conv {
                b'd' | b'i' | b'o' | b'u' | b'x' | b'X' => {
                    let (n, ity) = match v {
                        Value::Int { ity, v } => (v.value(), Some(*ity)),
                        _ => (0, None),
                    };
                    spec.int(&mut out, conv, n, ity);
                }
                b'f' | b'F' | b'e' | b'E' | b'g' | b'G' => {
                    spec.float(&mut out, conv, v.as_float().unwrap_or(0.0));
                }
                b'c' => {
                    let n = v.as_int().map(IntVal::value).unwrap_or(0) as u8;
                    spec.pad(&mut out, "", (n as char).encode_utf8(&mut [0; 4]), 1, false);
                }
                b's' => {
                    let Some(p) = v.as_ptr() else { continue };
                    match spec.prec {
                        Some(max) => {
                            self.cstr.clear();
                            self.append_c_string_upto(p, max)?;
                        }
                        None => {
                            self.read_c_string(p)?;
                        }
                    }
                    let text = String::from_utf8_lossy(&self.cstr);
                    spec.pad(&mut out, "", &text, self.cstr.len(), false);
                }
                _ => {
                    let addr = match v {
                        Value::Ptr(v) => v.addr(),
                        Value::Int { v, .. } => v.value() as u64,
                        Value::Float { .. } | Value::Void => 0,
                    };
                    let text = format!("{addr:#x}");
                    spec.pad(&mut out, "", &text, text.len(), false);
                }
            }
        }
        out.push_str(&fmt[at..]);
        Ok(out)
    }
}
